val aliased : int
