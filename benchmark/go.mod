module torchgt/benchmark

go 1.23

require torchgt v0.0.0

replace torchgt => ../
