module crisp/bench

go 1.22

require crisp v0.0.0

replace crisp => ../
