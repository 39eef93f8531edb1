module flatnet/bench

go 1.22

require flatnet v0.0.0

replace flatnet => ../
