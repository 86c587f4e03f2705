//go:build !race

package dnn

const raceEnabled = false
