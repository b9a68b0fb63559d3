let () = print_int Fx_operator.X.f
