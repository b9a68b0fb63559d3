let () = print_int Fx_unqualified.X.f
