let deep_uncalled = 1
