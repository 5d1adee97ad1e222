// Package seedbed is deliberately clean under every ftbfslint analyzer;
// the seeded-bug test mutates its hot-path anchor and asserts hotalloc
// reports exactly that mutation and nothing else.
package seedbed

// hotSum is the seedbed hot path.
//
//ftbfs:hotpath
func hotSum(xs []int32) int32 {
	var acc int32
	for _, x := range xs {
		acc += x
	}
	return acc
}

var _ = hotSum
