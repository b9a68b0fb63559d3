let () = print_int Fx_skipped.X.f
