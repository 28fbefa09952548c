//go:build linux

package runner_test

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"strconv"
	"syscall"
	"testing"

	"crisp/internal/core"
	"crisp/internal/runner"
	"crisp/internal/sim"
)

// BenchmarkStorePublish times what resolve does to the store for one
// computed entry: a load that misses, the claim, the load under it, the
// publish of a ~2.4 kB run result, and the release. Every op is a new key
// in a store that started empty. An op mostly waits on its two fsyncs,
// so beside ns/op it reports the process's kernel and user CPU per op
// (sys_ns/op, user_ns/op): what a publish takes from other work. After
// the timed loop it counts, with inotify, how many files a publish
// creates in the store directory (files/entry). It uses exported names
// only, so it also runs in an older tree for before → after numbers.
func BenchmarkStorePublish(b *testing.B) {
	ctx := context.Background()
	r, err := runner.New(ctx, runner.Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	res, err := r.Run(ctx, sim.RunSpec{Workload: "mcf", Insts: 100_000})
	if err != nil {
		b.Fatal(err)
	}
	if err := r.Close(); err != nil {
		b.Fatal(err)
	}
	entry, err := json.Marshal(res)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	st, err := runner.NewStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	publish := func(key string) {
		var got core.Result
		if st.Get(runner.KindRun, key, &got) {
			b.Fatalf("hit on the fresh key %s", key)
		}
		release, _, err := st.Lock(ctx, runner.KindRun, key)
		if err != nil {
			b.Fatal(err)
		}
		if st.Get(runner.KindRun, key, &got) {
			b.Fatalf("hit under the lock on the fresh key %s", key)
		}
		if err := st.Put(runner.KindRun, key, res); err != nil {
			b.Fatal(err)
		}
		release()
	}
	var ru0, ru1 syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		publish(strconv.Itoa(i))
	}
	b.StopTimer()
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(ru1.Stime.Nano()-ru0.Stime.Nano())/float64(b.N), "sys_ns/op")
	b.ReportMetric(float64(ru1.Utime.Nano()-ru0.Utime.Nano())/float64(b.N), "user_ns/op")

	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		b.Fatal(err)
	}
	defer syscall.Close(fd)
	if _, err := syscall.InotifyAddWatch(fd, dir, syscall.IN_CREATE); err != nil {
		b.Fatal(err)
	}
	const counted = 16
	for i := 0; i < counted; i++ {
		publish("counted-" + strconv.Itoa(i))
	}
	created := 0
	buf := make([]byte, 64<<10)
	for {
		n, err := syscall.Read(fd, buf)
		if errors.Is(err, syscall.EAGAIN) {
			break
		}
		if err != nil {
			b.Fatal(err)
		}
		// struct inotify_event: wd, mask, cookie, len, then len name bytes.
		for off := 0; off < n; off += syscall.SizeofInotifyEvent + int(binary.NativeEndian.Uint32(buf[off+12:])) {
			if binary.NativeEndian.Uint32(buf[off+4:])&syscall.IN_CREATE != 0 {
				created++
			}
		}
	}
	b.ReportMetric(float64(created)/counted, "files/entry")
	b.ReportMetric(float64(len(entry)), "entry_B")
}
