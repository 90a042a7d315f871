module fpisa/bench

go 1.23

require fpisa v0.0.0

replace fpisa => ../
