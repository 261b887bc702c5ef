package core

import "repro/internal/ckpt"

// CkptKey exposes a session's checkpoint key to the external tests.
func (s *Session) CkptKey(instr uint64) ckpt.Key { return s.ckptKey(instr) }
