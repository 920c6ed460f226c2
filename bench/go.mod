module dimprune/bench

go 1.24

require dimprune v0.0.0

replace dimprune => ../
