// Package main shows what deadcode catches: a declaration no root
// reaches, whatever its kind or export status.
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

// stale shares its name with a local of the pin test below, which
// does not keep it live: pin references resolve by type, not by name.
func stale() int { return 2 }

func main() {
	if used() == 1 && (Live{}).Alive() {
		return
	}
}
