package gridfile

// Inserted reports the number of tuples inserted.
func (g *Grid) Inserted() int { return g.inserted }

// point returns the coordinates of the point with the given id.
func (g *Grid) point(id int) []int64 { return g.points[id*g.k : (id+1)*g.k] }

// Coord converts a flat cell index back to coordinates.
func (g *Grid) Coord(flat int) []int {
	coord := make([]int, g.k)
	g.decode(flat, coord)
	return coord
}

// flatIndex converts coordinates to the row-major flat cell index.
func (g *Grid) flatIndex(coord []int) int {
	idx := 0
	for d := 0; d < g.k; d++ {
		idx = idx*g.dims[d] + coord[d]
	}
	return idx
}
