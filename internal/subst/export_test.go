package subst

import "repro/internal/sem"

// SetOnAnalyze installs (nil removes) the observer Run calls for every
// procedure it re-analyzes.
func SetOnAnalyze(f func(p *sem.Procedure)) { onAnalyze = f }
