module H = Hashtbl.Make (Fx_functor_arg.X)

let () = print_int (H.length (H.create 1))
