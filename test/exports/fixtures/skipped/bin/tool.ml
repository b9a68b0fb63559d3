let tool_uncalled = 1
