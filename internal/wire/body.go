package wire

import (
	"io"
	"sync"
)

// minBody is the first read size when a body's length is not declared.
const minBody = 64 << 10

// Buffer is a pooled byte buffer. Request bodies are read into one
// (ReadBody) and responses are rendered into one (Encoder), from the
// same pool: a handler releases its body once it is decoded, before it
// renders, so a request keeps one large buffer alive at a time, reused
// for its response.
type Buffer struct {
	B []byte
}

var bufferPool = sync.Pool{New: func() any { return new(Buffer) }}

func getBuffer() *Buffer { return bufferPool.Get().(*Buffer) }

// Release returns the buffer to the pool; B must not be used afterwards.
func (b *Buffer) Release() {
	b.B = b.B[:0]
	bufferPool.Put(b)
}

// ReadBody reads r to the end into a pooled buffer, presized from the
// declared length (an HTTP request's ContentLength; ≤ 0 when unknown) but
// never beyond limit+1 bytes up front, so a false header cannot force a
// large allocation. It does not enforce limit itself; wrap r in
// http.MaxBytesReader for that.
func ReadBody(r io.Reader, declared, limit int64) (*Buffer, error) {
	size := int64(minBody)
	if declared > 0 {
		size = min(declared, limit) + 1
	}
	b := getBuffer()
	buf := b.B[:0]
	if int64(cap(buf)) < size {
		buf = make([]byte, 0, size)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		b.B = buf
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			b.Release()
			return nil, err
		}
	}
}
