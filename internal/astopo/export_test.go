package astopo

// HoldsPairSet reports whether g keeps its construction-time pair set.
func (g *Graph) HoldsPairSet() bool { return g.pairs.slots != nil }
