// The benchmark is a module of its own so that it builds from this
// directory alone; the replace points at the repository it measures. The
// module path keeps the repro/ prefix so the import of repro/internal/...
// stays legal.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
