val opened : int
