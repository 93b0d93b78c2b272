// Package main shows what deadcode catches: a declaration no root
// reaches, whatever its kind or export status, and one that only a pin
// test names.
package main

// used is reached from main.
func used() int { return 1 }

// unused is a dead unexported function.
func unused() int { return used() }

// Live is reached from main, but only for its Alive method.
type Live struct{}

// Alive is called from main.
func (Live) Alive() bool { return true }

// Dead is an exported method nothing calls and no interface names.
func (Live) Dead() bool { return false }

// orphan is a type nothing refers to.
type orphan struct{ n int }

// refUsed is a reference copy that only the pin test below calls. Tests
// are no roots, so it belongs in the test's file.
func refUsed() int { return 1 }

func main() {
	if used() == 1 && (Live{}).Alive() {
		return
	}
}
