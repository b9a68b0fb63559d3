open Fx_called

let () = print_int (X.g 2)
let () = print_int X.(1 +! 2)
