module github.com/tacktp/tack/bench

go 1.22

require github.com/tacktp/tack v0.0.0

replace github.com/tacktp/tack => ../
