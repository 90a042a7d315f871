// Package b is used by the tool; its test uses package a.
package b

// B is called by the tool.
func B() int { return 6 }
