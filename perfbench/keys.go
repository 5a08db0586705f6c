package main

import (
	"strconv"
	"strings"

	"doppel/internal/store"
)

// keyTable returns n keys prefix+7 digits, sharing one backing string.
func keyTable(prefix byte, n int) []string {
	const width = 8
	var b strings.Builder
	b.Grow(n * width)
	buf := make([]byte, 0, width)
	for i := 0; i < n; i++ {
		buf = append(buf[:0], prefix)
		d := strconv.AppendInt(nil, int64(i), 10)
		for j := len(d); j < width-1; j++ {
			buf = append(buf, '0')
		}
		b.Write(append(buf, d...))
	}
	all := b.String()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = all[i*width : (i+1)*width]
	}
	return keys
}

// preloadInts creates every key in st holding n. Values are immutable,
// so all the records share one.
func preloadInts(st *store.Store, keys []string, n int64) {
	v := store.IntValue(n)
	for _, k := range keys {
		st.Preload(k, v)
	}
}

// recordInt reads an integer record straight from a closed database's
// store; an absent record reads 0.
func recordInt(st *store.Store, key string) (int64, error) {
	r := st.Get(key)
	if r == nil || r.Value() == nil {
		return 0, nil
	}
	return r.Value().AsInt()
}
