package store

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// EncodeValue serializes a value for redo logging and snapshots. The
// format is one kind byte followed by a kind-specific payload; absent
// values (nil) encode as a single zero byte.
func EncodeValue(v *Value) []byte { return AppendValue(nil, v) }

// AppendValue is EncodeValue into a caller-owned buffer: it appends the
// encoding of v to dst and returns the extended slice. The streaming
// snapshot writer uses it so encoding a store of any size reuses one
// buffer instead of allocating per entry.
func AppendValue(dst []byte, v *Value) []byte {
	if v == nil {
		return append(dst, byte(KindNone))
	}
	switch v.Kind {
	case KindInt64:
		dst = append(dst, byte(KindInt64))
		return binary.LittleEndian.AppendUint64(dst, uint64(v.Int))
	case KindBytes:
		dst = append(dst, byte(KindBytes))
		return append(dst, v.Bytes...)
	case KindTuple:
		t := v.tuple()
		dst = append(dst, byte(KindTuple))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(t.Order.A))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(t.Order.B))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(t.CoreID))
		return append(dst, t.Data...)
	case KindTopK:
		dst = append(dst, byte(KindTopK))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v.TopK.K()))
		es := v.TopK.Entries()
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(es)))
		for _, e := range es {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Order))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(e.CoreID))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.Data)))
			dst = append(dst, e.Data...)
		}
		return dst
	default:
		return append(dst, byte(KindNone))
	}
}

// DecodeValue parses EncodeValue's output.
func DecodeValue(raw []byte) (*Value, error) {
	if len(raw) == 0 {
		return nil, errors.New("store: empty encoded value")
	}
	kind := Kind(raw[0])
	body := raw[1:]
	switch kind {
	case KindNone:
		return nil, nil
	case KindInt64:
		if len(body) != 8 {
			return nil, fmt.Errorf("store: int64 payload of %d bytes", len(body))
		}
		return IntValue(int64(binary.LittleEndian.Uint64(body))), nil
	case KindBytes:
		b := make([]byte, len(body))
		copy(b, body)
		return BytesValue(b), nil
	case KindTuple:
		if len(body) < 20 {
			return nil, fmt.Errorf("store: tuple payload of %d bytes", len(body))
		}
		data := make([]byte, len(body)-20)
		copy(data, body[20:])
		return TupleValue(Tuple{
			Order:  Order{A: int64(binary.LittleEndian.Uint64(body)), B: int64(binary.LittleEndian.Uint64(body[8:]))},
			CoreID: int32(binary.LittleEndian.Uint32(body[16:])),
			Data:   data,
		}), nil
	case KindTopK:
		if len(body) < 8 {
			return nil, fmt.Errorf("store: topk payload of %d bytes", len(body))
		}
		k := int(binary.LittleEndian.Uint32(body))
		n := binary.LittleEndian.Uint32(body[4:])
		body = body[8:]
		set := NewTopK(k)
		for i := uint32(0); i < n; i++ {
			if len(body) < 16 {
				return nil, errors.New("store: truncated topk entry")
			}
			order := int64(binary.LittleEndian.Uint64(body))
			coreID := int32(binary.LittleEndian.Uint32(body[8:]))
			dl := binary.LittleEndian.Uint32(body[12:])
			body = body[16:]
			if uint32(len(body)) < dl {
				return nil, errors.New("store: truncated topk data")
			}
			data := make([]byte, dl)
			copy(data, body[:dl])
			body = body[dl:]
			set = set.Insert(TopKEntry{Order: order, CoreID: coreID, Data: data})
		}
		if len(body) != 0 {
			return nil, fmt.Errorf("store: %d trailing topk bytes", len(body))
		}
		return TopKValue(set), nil
	default:
		return nil, fmt.Errorf("store: unknown value kind %d", kind)
	}
}
