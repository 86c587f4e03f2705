//go:build !race

package perturb

const raceEnabled = false
