// Package fastq handles sequenced wetlab data (§VIII of the paper): parsing
// and writing the FASTQ format produced by Illumina and Nanopore sequencers,
// normalizing read orientation (reads come off the machine in both 5'→3' and
// 3'→5' directions), and trimming file primers so only payload information
// reaches the clustering module. With this package, real sequencing output
// seamlessly replaces the simulation module in the pipeline.
package fastq

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"dnastore/internal/dna"
	"dnastore/internal/primer"
)

// Record is one FASTQ entry.
type Record struct {
	ID      string // header line without the leading '@'
	Seq     string // raw base letters (may contain N or other ambiguity codes)
	Quality string // per-base quality string, same length as Seq
}

// DNA converts the record's bases to a dna.Seq. Records containing
// ambiguity codes (N etc.) return an error.
func (r Record) DNA() (dna.Seq, error) {
	return dna.FromString(r.Seq)
}

// Parse reads FASTQ records until EOF. It validates the 4-line structure
// (header '@', bases, '+' separator, qualities of equal length) and reports
// the first malformed record with its line number.
func Parse(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []Record
	line := 0
	read := func() (string, bool) {
		if !sc.Scan() {
			return "", false
		}
		line++
		// The scanner drops one '\r' before each '\n'; drop any more so a
		// field never ends in '\r', which Write could not round-trip.
		return strings.TrimRight(sc.Text(), "\r"), true
	}
	for {
		header, ok := read()
		if !ok {
			break
		}
		if strings.TrimSpace(header) == "" {
			continue // tolerate blank lines between records
		}
		if !strings.HasPrefix(header, "@") {
			return nil, fmt.Errorf("fastq: line %d: header %q does not start with '@'", line, header)
		}
		seq, ok := read()
		if !ok {
			return nil, fmt.Errorf("fastq: line %d: truncated record (missing sequence)", line)
		}
		sep, ok := read()
		if !ok {
			return nil, fmt.Errorf("fastq: line %d: truncated record (missing '+')", line)
		}
		if !strings.HasPrefix(sep, "+") {
			return nil, fmt.Errorf("fastq: line %d: separator %q does not start with '+'", line, sep)
		}
		qual, ok := read()
		if !ok {
			return nil, fmt.Errorf("fastq: line %d: truncated record (missing quality)", line)
		}
		if len(qual) != len(seq) {
			return nil, fmt.Errorf("fastq: line %d: quality length %d != sequence length %d", line, len(qual), len(seq))
		}
		out = append(out, Record{ID: strings.TrimPrefix(header, "@"), Seq: seq, Quality: qual})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Write emits records in FASTQ format.
func Write(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	for _, r := range records {
		if _, err := fmt.Fprintf(bw, "@%s\n%s\n+\n%s\n", r.ID, r.Seq, r.Quality); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// FromReads converts simulated reads into FASTQ records with flat quality
// scores, for writing pipeline intermediates in sequencer format.
func FromReads(reads []dna.Seq, idPrefix string) []Record {
	out := make([]Record, len(reads))
	for i, r := range reads {
		s := r.String()
		out[i] = Record{
			ID:      fmt.Sprintf("%s_%d", idPrefix, i),
			Seq:     s,
			Quality: strings.Repeat("I", len(s)),
		}
	}
	return out
}

// MeanPhred returns the record's mean Phred quality score, assuming the
// standard Sanger/Illumina '!'-based (Phred+33) encoding. Records with an
// empty quality string score 0.
func (r Record) MeanPhred() float64 {
	if len(r.Quality) == 0 {
		return 0
	}
	sum := 0
	for i := 0; i < len(r.Quality); i++ {
		q := int(r.Quality[i]) - 33
		if q < 0 {
			q = 0
		}
		sum += q
	}
	return float64(sum) / float64(len(r.Quality))
}

// FilterByQuality returns the records whose mean Phred score is at least
// minMean, and how many were dropped. Sequencing runs routinely discard
// low-quality reads before analysis; dropping them before clustering saves
// work and avoids polluting clusters with junk reads.
func FilterByQuality(records []Record, minMean float64) (kept []Record, dropped int) {
	for _, r := range records {
		if r.MeanPhred() >= minMean {
			kept = append(kept, r)
		} else {
			dropped++
		}
	}
	return kept, dropped
}

// Stats summarizes a preprocessing run.
type Stats struct {
	Total            int // records presented
	InvalidBases     int // records dropped for non-ACGT characters
	UnmatchedPrimers int // records whose orientation could not be determined
	TrimFailures     int // oriented reads whose primers could not be located
	Kept             int // reads handed to the clustering module
	ReverseOriented  int // reads that arrived 3'→5' and were flipped
}

// Preprocess implements the §VIII flow: for every record, convert to bases,
// determine strand direction by matching the file's primers (tolerating tol
// edits per primer), flip 3'→5' reads to the 5'→3' convention, and remove
// the primers. The returned reads contain only index+payload and are ready
// for clustering.
func Preprocess(records []Record, pair primer.Pair, tol int) ([]dna.Seq, Stats) {
	var stats Stats
	stats.Total = len(records)
	var out []dna.Seq
	for _, rec := range records {
		seq, err := rec.DNA()
		if err != nil {
			stats.InvalidBases++
			continue
		}
		oriented, orientation := primer.Orient(seq, pair, tol)
		if orientation == primer.Unknown {
			stats.UnmatchedPrimers++
			continue
		}
		if orientation == primer.ReverseStrand {
			stats.ReverseOriented++
		}
		inner, ok := primer.Trim(oriented, pair, tol)
		if !ok {
			stats.TrimFailures++
			continue
		}
		out = append(out, inner)
		stats.Kept++
	}
	return out, stats
}
