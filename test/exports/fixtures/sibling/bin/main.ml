let () = print_int Fx_sibling.X.f
