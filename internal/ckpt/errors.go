package ckpt

import "errors"

// ErrCorrupt classifies a disk-tier checkpoint whose bytes cannot be
// trusted: digest-footer mismatch, structural decode failure, version
// skew, or a snapshot that decodes cleanly but holds the wrong
// instruction count for its key. The entry is unusable no matter how
// many times it is re-read; the healing path is to discard it and fall
// back to an earlier checkpoint or cold execution.
var ErrCorrupt = errors.New("ckpt: corrupt checkpoint")

// ErrIO classifies a disk-tier operation that failed at the filesystem
// level — open, read, write, sync, or rename. Unlike ErrCorrupt the
// entry itself may be fine; the fault may be transient and a retry or
// a degrade to the in-memory tier can heal it.
var ErrIO = errors.New("ckpt: checkpoint I/O")
