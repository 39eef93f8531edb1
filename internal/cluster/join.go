package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// This file is the worker side of cluster membership: discover the
// coordinator's world, materialize the same snapshot by content address,
// and register. The state-sync contract is deliberately minimal — a worker
// never receives topology over a bespoke protocol; it either already has
// the snapshot (verified by sha256) or fetches the exact bytes the
// coordinator serves and mmaps them like any local file.

// FetchInfo retrieves the coordinator's world description.
func FetchInfo(ctx context.Context, client *http.Client, coordinator string) (Info, error) {
	var info Info
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, CanonicalAddr(coordinator)+PathInfo, nil)
	if err != nil {
		return info, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return info, fmt.Errorf("cluster: %s: status %d", PathInfo, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return info, err
	}
	if info.World == "" {
		return info, fmt.Errorf("cluster: coordinator returned no world identity")
	}
	return info, nil
}

// EnsureSnapshot returns a local path holding the coordinator's snapshot,
// downloading it only when the content-addressed cache misses. cacheDir
// defaults to <os.TempDir()>/flatnet-snapshots; the file is stored as
// <sha256>.snap, so any number of workers (and restarts) share one copy
// per world and a hash match proves the bytes without trusting the cache.
func EnsureSnapshot(ctx context.Context, client *http.Client, coordinator string, info Info, cacheDir string) (string, error) {
	if info.SnapshotSHA == "" {
		return "", fmt.Errorf("cluster: coordinator serves no snapshot (world %.12s…); start the worker with the same -snapshot file instead", info.World)
	}
	if cacheDir == "" {
		cacheDir = filepath.Join(os.TempDir(), "flatnet-snapshots")
	}
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(cacheDir, info.SnapshotSHA+".snap")
	if sum, err := fileSHA256(path); err == nil && sum == info.SnapshotSHA {
		return path, nil
	}
	if err := DownloadSnapshot(ctx, client, coordinator, info, path); err != nil {
		return "", err
	}
	return path, nil
}

// DownloadSnapshot streams the coordinator's snapshot to path, verifying
// the sha256 while writing; a mismatch leaves no file behind.
func DownloadSnapshot(ctx context.Context, client *http.Client, coordinator string, info Info, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, CanonicalAddr(coordinator)+PathSnapshot, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s: status %d", PathSnapshot, resp.StatusCode)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	h := sha256.New()
	if _, err := io.Copy(io.MultiWriter(tmp, h), resp.Body); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if sum := fmt.Sprintf("%x", h.Sum(nil)); sum != info.SnapshotSHA {
		return fmt.Errorf("cluster: snapshot hash mismatch: got %.12s…, coordinator advertises %.12s…", sum, info.SnapshotSHA)
	}
	return os.Rename(tmp.Name(), path)
}

// Join registers a worker with the coordinator. The coordinator rejects
// (HTTP 409) a worker whose world hash or wire version differs from its
// own.
func Join(ctx context.Context, client *http.Client, coordinator string, jr JoinRequest) (JoinResponse, error) {
	var out JoinResponse
	b, err := json.Marshal(jr)
	if err != nil {
		return out, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, CanonicalAddr(coordinator)+PathJoin, bytes.NewReader(b))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return out, fmt.Errorf("cluster: join rejected: status %d: %s", resp.StatusCode, snippet)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// JoinRetry joins with retries (for the race where the worker starts
// before the coordinator finishes loading), then keeps re-joining on the
// given interval as a heartbeat: Register is idempotent, so a worker that
// the coordinator demoted — or that outlived a coordinator restart —
// re-enters the pool on the next beat. The heartbeat goroutine stops when
// ctx is canceled.
func JoinRetry(ctx context.Context, client *http.Client, coordinator string, jr JoinRequest, beat time.Duration) error {
	var err error
	for i := 0; i < 20; i++ {
		if _, err = Join(ctx, client, coordinator, jr); err == nil {
			break
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(250 * time.Millisecond):
		}
	}
	if err != nil {
		return err
	}
	if beat > 0 {
		go func() {
			t := time.NewTicker(beat)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					Join(ctx, client, coordinator, jr)
				}
			}
		}()
	}
	return nil
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}
