package gridfile

// Inserted reports the number of tuples inserted.
func (g *Grid) Inserted() int { return g.inserted }
