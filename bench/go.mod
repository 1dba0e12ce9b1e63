module scotty/bench

go 1.22

require scotty v0.0.0

replace scotty => ../
