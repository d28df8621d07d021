let included = 0
