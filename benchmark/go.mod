module castencil/benchmark

go 1.22

require castencil v0.0.0

replace castencil => ../
