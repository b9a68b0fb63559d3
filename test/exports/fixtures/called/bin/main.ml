let () = print_int Fx_called.X.f
