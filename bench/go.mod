module qens/bench

go 1.22

require qens v0.0.0

replace qens => ../
