val tool_uncalled : int
