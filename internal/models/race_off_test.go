//go:build !race

package models

const raceBuild = false
