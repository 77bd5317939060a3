module prany/bench

go 1.22

require prany v0.0.0

replace prany => ../
