module sonic/benchmark

go 1.22

require sonic v0.0.0

replace sonic => ../
