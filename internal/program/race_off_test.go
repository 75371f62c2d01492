//go:build !race

package program_test

const raceBuild = false
