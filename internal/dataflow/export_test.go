package dataflow

import (
	"dtaint/internal/cfg"
	"dtaint/internal/image"
	"dtaint/internal/symexec"
)

// SetExecute substitutes the per-function symbolic engine of both
// phases and returns a func restoring the real one.
func SetExecute(f func(*cfg.Function, *image.Binary, symexec.Oracle, symexec.Options) *symexec.Summary) (restore func()) {
	orig := execute
	execute = f
	return func() { execute = orig }
}
