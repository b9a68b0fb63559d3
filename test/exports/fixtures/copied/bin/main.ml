let () = print_int Fx_copied.X.f
