// Package main shows what deadcode keeps: a method reached only through
// an interface, the callee of a var initialiser, a reference copy that a
// pin test names.
package main

// shape is the only way main reaches square's method.
type shape interface{ Area() int }

type square struct{ side int }

// Area is live: square reaches an interface with a method of this name.
func (s square) Area() int { return s.side * s.side }

// table is a package-level var: its initialiser is a root.
var table = build()

// build is reached only from table's initialiser.
func build() []int { return []int{1, 2} }

// fastSum is the optimized kernel main runs.
func fastSum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// refSum is the reference copy only the pin test calls.
func refSum(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	return xs[0] + refSum(xs[1:])
}

func main() {
	var s shape = square{side: fastSum(table)}
	_ = s.Area()
}
