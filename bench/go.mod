module siphoc/bench

go 1.24

require siphoc v0.0.0

replace siphoc => ../
