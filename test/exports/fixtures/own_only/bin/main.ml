let () = print_int Fx_own_only.X.f
