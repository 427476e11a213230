module cirank/bench

go 1.22

require cirank v0.0.0

replace cirank => ../
