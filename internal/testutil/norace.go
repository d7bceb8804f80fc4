//go:build !race

package testutil

const Race = false
