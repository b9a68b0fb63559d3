let () =
  let g = Fx_unqualified.X.f + 2 in
  print_int g
