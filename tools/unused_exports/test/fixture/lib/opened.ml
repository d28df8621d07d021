let opened = 0
