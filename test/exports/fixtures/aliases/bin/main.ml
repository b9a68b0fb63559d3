module M = Fx_aliases_facade.X

let () = print_int M.f
let () = print_int (Fx_aliases_facade.Nested.g 1)
let () = Fx_aliases_facade.(print_int X.Sub.h)
