let aliased = 0
