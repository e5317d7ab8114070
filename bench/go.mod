// The benchmark is a module of its own so that it builds from its own
// build file and nothing in the root module can import it. It reaches
// the program under test only through hurricane/rt's public API.
module hurricane/bench

go 1.24

require hurricane v0.0.0

replace hurricane => ../
