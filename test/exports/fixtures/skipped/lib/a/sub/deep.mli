val deep_uncalled : int
