let () = print_int (Fx_skipped.X.g 1)
