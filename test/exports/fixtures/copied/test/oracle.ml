let () = print_int (Fx_copied.X.g 1)
