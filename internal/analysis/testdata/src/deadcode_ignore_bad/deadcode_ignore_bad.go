// Package main shows that a deadcode finding cannot be suppressed: the
// reasoned directive is itself a finding and the dead declaration stays
// flagged.
package main

// chart is kept for a later change, which a comment cannot excuse.
func chart() int { return 4 } //sonic:ignore deadcode kept for a chart a later change draws

func main() {}
