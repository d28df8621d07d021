val included : int
