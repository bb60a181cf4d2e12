module perm/bench

go 1.21

require perm v0.0.0

replace perm => ../
