package main

import "reflect"

// statSum sums the named ShardStats field over every shard of a
// System.Stats() result. Fields are read by name through reflect so a
// later change to the stats struct cannot break this directory's
// build; ok is false when the field does not exist (the metric is then
// reported as absent). idx selects an element of an array field such as
// ShedByLane; pass -1 for a scalar.
func statSum(stats any, field string, idx int) (sum int64, ok bool) {
	v := reflect.ValueOf(stats)
	if v.Kind() != reflect.Slice {
		return 0, false
	}
	for i := 0; i < v.Len(); i++ {
		f := v.Index(i).FieldByName(field)
		if !f.IsValid() {
			return 0, false
		}
		if idx >= 0 {
			if (f.Kind() != reflect.Array && f.Kind() != reflect.Slice) || idx >= f.Len() {
				return 0, false
			}
			f = f.Index(idx)
		}
		if !f.CanInt() {
			return 0, false
		}
		sum += f.Int()
	}
	return sum, true
}
