let h = X.g 1
