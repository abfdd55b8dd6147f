package isa

// UopsLenCap returns the length and capacity of a decode's flat µop array.
func UopsLenCap(d *DecodedProgram) (n, c int) { return len(d.uops), cap(d.uops) }
