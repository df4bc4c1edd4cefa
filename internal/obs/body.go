package obs

import (
	"io"
	"net/http"
)

// BodyReserve bounds how far ReadBody's buffer may run ahead of the bytes
// that have arrived: a declared Content-Length sizes the buffer, but never
// more than max(bytes received, BodyReserve) beyond what the client has
// sent so far.
const BodyReserve = 4 << 20

// ReadBody reads a request body of at most limit bytes; a longer body is
// refused with http.MaxBytesReader's error. A body that declares its
// length is read into one buffer of that size when it is at most
// BodyReserve; a longer one starts with BodyReserve bytes and at least
// doubles as the bytes arrive, capped at the declared length, so a client
// cannot make the server reserve memory it does not send and a large body
// is copied a bounded number of times. A body of unknown length grows as
// io.ReadAll grows it.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	declared := r.ContentLength
	if declared < 0 {
		return io.ReadAll(body)
	}
	// One byte past the limit is enough for the limit check to fire.
	declared = min(declared, limit+1)
	buf := make([]byte, 0, min(declared, BodyReserve))
	for {
		if len(buf) == cap(buf) {
			// Full: probe for the end before growing, so a body of
			// exactly the declared length is never regrown.
			var probe [1]byte
			n, err := body.Read(probe[:])
			if n == 0 {
				if err == io.EOF {
					return buf, nil
				}
				if err != nil {
					return nil, err
				}
				continue
			}
			next := len(buf) + max(len(buf), BodyReserve)
			if int64(len(buf)) < declared {
				next = int(min(declared, int64(next)))
			}
			grown := make([]byte, len(buf), next)
			copy(grown, buf)
			buf = append(grown, probe[0])
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}
